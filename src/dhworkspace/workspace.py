"""Monte Carlo workspace mapping: point clouds, voxel volumes, projections.

Joint configurations are drawn uniformly within each movable joint's limits
from a single splitmix64 stream, so a cloud is fully determined by
(model, n, seed) and is byte-reproducible across platforms. Sample k
consumes draws (k-1)*m+1 .. k*m of the stream, where m is the movable
joint count. The generator state advances additively, so
rng.bulk_unit(seed, count, offset) with offset = (k-1)*m starts the stream
at sample k in O(1), which keeps partitioned or resumed runs exactly equal
to a sequential one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import RobotModel, fk_batch
from .rng import bulk_unit

#: bound on voxel indices and on voxels per box, so packed keys fit in int64
_INDEX_LIMIT = 2 ** 62


@dataclass(frozen=True)
class SampleSpec:
    """Sampling request: how many configurations, from which seed."""

    n: int
    seed: int = 42

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """End-effector positions in sample order, with their provenance.

    The cloud keeps its own read-only copy of the points, so their cached
    per-axis bounds always hold.
    """

    points: np.ndarray  # (k, 3) float64, meters
    robot: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.array(self.points, dtype=np.float64, order="C"))
        if self.points.shape[1:] != (3,):
            raise ValueError(f"points shape {self.points.shape} is not (k, 3)")
        self.points.flags.writeable = False

    @functools.cached_property
    def _bounds(self) -> tuple:
        """(per-axis minima, per-axis maxima) of a non-empty cloud, computed once
        for the voxel box and the bounding box; column passes beat (n, 3) rows."""
        columns = self.points.T
        return tuple(float(c.min()) for c in columns), tuple(float(c.max()) for c in columns)


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Occupancy set on a regular grid anchored at the origin.

    A point p belongs to voxel floor(p / resolution), componentwise, so
    grids from different runs at equal resolution are directly comparable.
    Voxel (i, j, k) is stored as the packed key
    ((i - lo[0]) * span[1] + (j - lo[1])) * span[2] + (k - lo[2]), where lo
    is the box's minimum corner and span its size in voxels per axis.
    """

    resolution: float
    keys: np.ndarray  # sorted distinct packed int64 keys
    lo: tuple  # (i, j, k) of the minimum corner of the occupied box
    span: tuple  # voxels per axis of that box

    @functools.cached_property
    def occupied(self) -> frozenset:
        """The occupied (i, j, k) integer triples."""
        ij, k = np.divmod(self.keys, self.span[2])
        i, j = np.divmod(ij, self.span[1])
        lo = self.lo
        return frozenset(zip((i + lo[0]).tolist(), (j + lo[1]).tolist(),
                             (k + lo[2]).tolist()))

    @property
    def occupied_count(self) -> int:
        return self.keys.size

    @property
    def volume_estimate(self) -> float:
        return self.occupied_count * self.resolution ** 3


def joint_samples(model: RobotModel, spec: SampleSpec) -> np.ndarray:
    """(n, m) matrix of sampled configurations, row k = sample k.

    Column j of row k is min + (max - min) * u for movable row j, with u
    the next draw of SplitMix64(spec.seed) in row-major order, so q lands
    in [min, max) except in the degenerate min == max case.
    """
    movable = model.movable_rows
    m = len(movable)
    if m == 0:
        raise ValueError(f"model {model.name!r} has no movable joints to sample")
    lo, hi = np.array([row.limits for row in movable]).T
    Q = bulk_unit(spec.seed, spec.n * m).reshape(spec.n, m)
    Q *= hi - lo
    Q += lo
    return Q


def generate_cloud(model: RobotModel, spec: SampleSpec) -> PointCloud:
    """Sample the joint space and evaluate FK; points in sample order."""
    # the cloud copies the positions, so no (n, 4, 4) transform outlives this call
    points = fk_batch(model, joint_samples(model, spec))[:, :3, 3]
    return PointCloud(points=points, robot=model.name, seed=spec.seed)


def voxelize(cloud: PointCloud, resolution: float) -> VoxelGrid:
    """Quantize the cloud onto the origin-anchored grid.

    Raises ValueError when the resolution is not a positive finite number,
    when its cube overflows, or when the grid is too fine for the cloud: a
    voxel index of magnitude 2**62 or more, or a box of more than 2**62
    voxels, whose packed keys would not fit in int64; the message names the
    cloud's extent when no resolution with a finite cube is coarse enough.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"voxel resolution must be a positive finite number, got {resolution}")
    try:
        resolution ** 3  # as in VoxelGrid.volume_estimate
    except OverflowError:
        raise ValueError(f"voxel resolution {resolution} is too coarse: "
                         "the voxel volume overflows") from None
    points = cloud.points
    if points.shape[0] == 0:
        return VoxelGrid(resolution, np.empty(0, dtype=np.int64), (0, 0, 0), (0, 0, 0))
    # division by a positive resolution and floor are monotone, so the six
    # bounds give the index check and the box before any point is divided
    bounds = cloud._bounds
    if not all(abs(v) / resolution < _INDEX_LIMIT for side in bounds for v in side):
        extent = max(abs(v) for side in bounds for v in side)
        try:  # the finest resolution the index limit allows, and so every coarser one
            (extent / _INDEX_LIMIT) ** 3
        except OverflowError:
            raise ValueError(f"no voxel grid holds this cloud: it reaches {extent} m along an axis") from None
        raise ValueError(f"voxel resolution {resolution} is too fine for this cloud: "
                         "a voxel index reaches 2**62")
    lo, hi = ([math.floor(v / resolution) for v in side] for side in bounds)
    span = tuple(h - l + 1 for h, l in zip(hi, lo))
    if span[0] * span[1] * span[2] > _INDEX_LIMIT:
        raise ValueError(f"voxel resolution {resolution} is too fine for this cloud: "
                         "its box holds more than 2**62 voxels")
    keys = np.zeros(points.shape[0], dtype=np.int64)
    index = np.empty_like(keys)
    for column, axis_lo, axis_span in zip(points.T, lo, span):
        np.floor(column / resolution, out=index, casting="unsafe")
        index -= axis_lo  # before accumulating, so no sum leaves int64 range
        keys *= axis_span
        keys += index
    keys.sort()
    distinct = np.concatenate(([True], keys[1:] != keys[:-1]))
    return VoxelGrid(resolution, keys[distinct], tuple(lo), span)


def project(cloud: PointCloud, plane: str) -> np.ndarray:
    """(n, 2) view of the cloud: xy drops z, xz drops y, yz drops x."""
    columns = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
    try:
        i, j = columns[plane]
    except KeyError:
        raise ValueError(f"plane must be one of xy, xz, yz; got {plane!r}") from None
    return cloud.points[:, (i, j)]


def summarize(cloud: PointCloud, resolution: float) -> dict:
    """The JSON record `volume` prints: provenance, voxel-occupancy volume,
    max reach and bounding box. Raises ValueError for an empty cloud, a
    resolution voxelize rejects, or a volume that is not finite."""
    if cloud.points.shape[0] == 0:
        raise ValueError("cannot summarize an empty cloud")
    grid = voxelize(cloud, resolution)
    volume = grid.volume_estimate
    if not math.isfinite(volume):
        raise ValueError(f"voxel resolution {resolution} is too coarse: the volume {volume} is not finite")
    x, y, z = cloud.points.T
    # (x*x + y*y) + z*z is the sum order of np.linalg.norm(points, axis=1),
    # and sqrt is monotone and correctly rounded: the same bits as its
    # largest value, without a square root per point
    r2 = x * x
    r2 += y * y
    r2 += z * z
    bbox_min, bbox_max = cloud._bounds
    return {
        "robot": cloud.robot,
        "n": len(cloud.points),
        "seed": cloud.seed,
        "voxel_resolution": resolution,
        "occupied_count": grid.occupied_count,
        "volume_m3": volume,
        "max_reach_m": math.sqrt(float(r2.max())),
        "bbox_min": list(bbox_min),
        "bbox_max": list(bbox_max),
    }
