"""Denavit-Hartenberg chains and their forward kinematics.

All lengths are meters, all angles radians. A chain is an ordered list of
links, each described by the four D-H parameters (a, alpha, d, theta); the
joint variable adds to theta for revolute joints and to d for prismatic ones.
Homogeneous transforms are plain 4x4 float64 numpy arrays. fk_batch evaluates
the whole stack it is given in one scratch array allocated per call, updating
its rows in place; a caller that wants a bounded working set cuts the stack
into blocks, as workspace.generate_cloud does.
"""

from __future__ import annotations

import math

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

#: Valid joint kinds for DHRow.kind
JOINT_KINDS = (REVOLUTE, PRISMATIC)


class KinematicsError(ValueError):
    """A joint configuration cannot be evaluated against a model."""


class _Record:
    """Base of the package's frozen records: a subclass lists its fields in
    _fields (and as __slots__, unless it needs a __dict__), and its __init__
    checks them and stores them with _set. The repr is Class(field=value, ...);
    a record equals only a record of its class with equal fields, and hashes
    as their tuple. No field can be assigned or deleted; pickle and copy
    rebuild a record through __init__, which checks it again."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class DHRow(_Record):
    """One link of a D-H chain; its joint number is its place in the chain.

    a and d are meters, alpha and theta_offset radians. limits bound the
    joint variable (radians for revolute rows, meters for prismatic). A row
    with `fixed` set is not a degree of freedom: its joint variable is the
    constant `fixed` value.
    """

    __slots__ = _fields = ("kind", "a", "alpha", "d", "theta_offset", "limits", "fixed")

    def __init__(self, kind: str, a: float, alpha: float, d: float, theta_offset: float = 0.0,
                 limits: tuple[float, float] = (-math.pi, math.pi), fixed: float | None = None):
        if kind not in JOINT_KINDS:
            raise ValueError(f"unknown joint kind {kind!r}")
        for name, value in (("a", a), ("alpha", alpha), ("d", d), ("theta_offset", theta_offset)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        lo, hi = limits
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("limits must be finite")
        if lo > hi:
            raise ValueError(f"limits inverted: min {lo!r} > max {hi!r}")
        if fixed is not None and not lo <= fixed <= hi:
            raise ValueError(f"fixed value {fixed!r} outside limits ({lo!r}, {hi!r})")
        self._set(kind, a, alpha, d, theta_offset, limits, fixed)

    @property
    def movable(self) -> bool:
        return self.fixed is None


class RobotModel(_Record):
    """An ordered D-H chain in meters/radians; row k (from 1) is joint k.

    Chains with zero degrees of freedom are constructible (useful for
    degenerate tests) but rejected by the parser, which demands at least
    one movable joint.
    """

    __slots__ = _fields = ("name", "rows")

    def __init__(self, name: str, rows: tuple[DHRow, ...]):
        if not rows:
            raise ValueError("model needs at least one row")
        self._set(name, rows)

    @property
    def movable_rows(self) -> tuple[DHRow, ...]:
        return tuple(row for row in self.rows if row.movable)

    @property
    def movable_count(self) -> int:
        return len(self.movable_rows)


def forward_kinematics(model: RobotModel, config) -> np.ndarray:
    """Base-to-end-effector transform for one configuration.

    config holds one value per movable row, in row order; fixed rows use
    their stored constant. A wrong count, a value that is not finite or one
    outside its row's limits raises KinematicsError rather than being
    clamped. This is the checked one-pose entry into fk_batch, so it gives
    the same bits as that pose's row of any batch.
    """
    import numpy as np
    q = np.asarray(config, dtype=np.float64).ravel()
    if q.size != model.movable_count:
        raise KinematicsError(
            f"model {model.name!r} has {model.movable_count} movable joints, "
            f"got {q.size} values"
        )
    movable = [(joint, row) for joint, row in enumerate(model.rows, 1) if row.movable]
    for (joint, row), value in zip(movable, q.tolist()):
        if not math.isfinite(value):
            raise KinematicsError(f"joint {joint}: value must be finite, got {value!r}")
        lo, hi = row.limits
        if value < lo:
            raise KinematicsError(f"joint {joint}: value {value!r} violates min limit {lo!r}")
        if value > hi:
            raise KinematicsError(f"joint {joint}: value {value!r} violates max limit {hi!r}")
    return fk_batch(model, q[None])[0]


def fk_batch(model: RobotModel, configs: np.ndarray, *, pose: bool = True) -> np.ndarray:
    """Forward kinematics for a stack of configurations, shape (n, movable).

    Returns an (n, 4, 4) array, or with pose=False only the (n, 3)
    end-effector positions, a view of a (3, n) array that holds them and
    nothing else. Values are NOT limit-checked: this is the hot path for
    workspace sampling, where configurations are within limits by
    construction; forward_kinematics is the checked entry for one pose.

    A row is Rz(theta) @ C with C = Tz(d) @ Tx(a) @ Rx(alpha), and only
    theta (revolute) or d (prismatic) varies with the configuration. So the
    running product is kept as its rotation columns c0, c1, c2 and its
    position p, each (3, n), and every row updates them elementwise; a
    row's bits do not depend on the rows around it. Each call allocates p
    and one scratch array: six (3, n) slabs, which hold c0, c1, c2 and the
    row's x, y and temporary products and trade roles from row to row,
    and a (3, n) slab for the row's varying theta (or d), cos and sin.
    Every product is written with out=, so a row allocates nothing the
    size of the stack.

    Terms that a row's own constants make exactly zero are skipped: a*x
    when a == 0, d*c2 when d is a scalar 0, the rotation by alpha when
    alpha == 0. With pose=False a row updates c0 and c1, and c2, only where
    a later row reads them, and takes no cos or sin when nothing reads its x
    or y. A skipped term is +-0, which changes no non-zero sum, and p starts
    at +0 and never becomes -0; so for finite configurations the positions
    are the same bits as without the skips, and the 4x4's rotation can
    differ only in the sign of an exact zero.
    """
    import numpy as np
    Q = np.asarray(configs, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != model.movable_count:
        raise KinematicsError(
            f"expected shape (n, {model.movable_count}), got {Q.shape}"
        )
    n = Q.shape[0]
    work = np.empty((7, 3, n))
    work[:3] = np.eye(3)[:, :, None]  # c0, c1, c2 start as the identity's columns
    c0, c1, c2, x, y, t = work[:6]
    varying, cosine, sine = work[6]
    p = np.zeros((3, n))
    reads, later = [], (pose, pose)  # per row: does a later row read c0 and c1 (read together), c2?
    for row in reversed(model.rows):
        reads.append(later)
        later = row.a != 0 or any(later), row.d != 0 or row.kind == PRISMATIC or any(later)
    col = 0
    for row, (read01, read2) in zip(model.rows, reversed(reads)):
        revolute = row.kind == REVOLUTE
        base = row.theta_offset if revolute else row.d
        if row.fixed is None:
            value = np.add(base, Q[:, col], out=varying)
            col += 1
        else:
            value = base + row.fixed
        theta, d = (value, row.d) if revolute else (row.theta_offset, value)
        a_term = row.a != 0
        d_term = np.ndim(d) or d != 0  # a prismatic row's d is an array
        if a_term or read01 or read2:
            vector = np.ndim(theta)
            ct = np.cos(theta, out=cosine if vector else None)
            st = np.sin(theta, out=sine if vector else None)
        if a_term or read01:
            np.multiply(c0, ct, out=x)
            x += np.multiply(c1, st, out=y)  # y is free until it is computed below
        if a_term:
            step = np.multiply(x, row.a, out=t)
            if d_term:
                step += np.multiply(c2, d, out=y)
            p += step
        elif d_term:
            p += np.multiply(c2, d, out=t)
        if not (read01 or read2):  # only p is read after this row
            break
        np.multiply(c1, ct, out=y)
        y -= np.multiply(c0, st, out=t)
        if row.alpha == 0:
            c0, c1, x, y = x, y, c0, c1
        else:  # the new c1 and c2 go to the slabs of the old c0 and c1
            ca, sa = math.cos(row.alpha), math.sin(row.alpha)
            if read01:
                np.multiply(y, ca, out=c0)
                c0 += np.multiply(c2, sa, out=t)
            if read2:
                np.multiply(c2, ca, out=c1)
                c1 -= np.multiply(y, sa, out=t)
            c0, c1, c2, x = x, c0, c1, c2
    if not pose:
        return p.T
    T = np.zeros((n, 4, 4))
    T[:, 3, 3] = 1.0
    columns = T.transpose(2, 1, 0)  # columns[c, r, k] == T[k, r, c]
    columns[0, :3], columns[1, :3], columns[2, :3], columns[3, :3] = c0, c1, c2, p
    return T


def reach_bound(model: RobotModel) -> float:
    """Triangle-inequality bound on end-effector distance from the base.

    Sum over rows of |a| plus the largest |d + q| the row can produce
    (|d| for revolute rows, worst-case extension for prismatic ones).
    """
    for total in _reach_sums(model.rows):
        pass
    return total


def _reach_sums(rows):
    """reach_bound's running sum after each row, in row order."""
    total = 0.0
    for row in rows:
        total += abs(row.a)
        if row.kind == REVOLUTE:
            total += abs(row.d)
        elif row.fixed is not None:
            total += abs(row.d + row.fixed)
        else:
            lo, hi = row.limits
            total += max(abs(row.d + lo), abs(row.d + hi))
        yield total
