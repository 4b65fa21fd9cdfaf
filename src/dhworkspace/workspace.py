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
from .rng import SplitMix64, bulk_unit

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
    """End-effector positions in sample order, with their provenance."""

    points: np.ndarray  # (n, 3) float64, meters
    robot: str
    seed: int
    n: int

    def __post_init__(self):
        if self.points.shape != (self.n, 3):
            raise ValueError(f"points shape {self.points.shape} != ({self.n}, 3)")


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


@dataclass(frozen=True)
class WorkspaceSummary:
    """Aggregate statistics of one sampled cloud."""

    robot: str
    n: int
    seed: int
    bbox_min: tuple
    bbox_max: tuple
    max_reach: float
    voxel_resolution: float
    occupied_count: int
    volume_estimate: float


def sample_config(model: RobotModel, state: SplitMix64) -> np.ndarray:
    """Draw one configuration, one value per movable row in index order.

    q = min + (max - min) * u with u uniform on [0, 1), so q lands in
    [min, max) except in the degenerate min == max case. Advances state
    by exactly the movable joint count.
    """
    values = []
    for row in model.rows:
        if row.fixed is not None:
            continue
        lo, hi = row.limits
        values.append(lo + (hi - lo) * state.next_unit())
    return np.array(values)


def joint_samples(model: RobotModel, spec: SampleSpec) -> np.ndarray:
    """(n, m) matrix of sampled configurations, row k = sample k.

    Equals n successive sample_config calls on SplitMix64(spec.seed),
    computed vectorized.
    """
    movable = model.movable_rows
    m = len(movable)
    if m == 0:
        raise ValueError(f"model {model.name!r} has no movable joints to sample")
    u = bulk_unit(spec.seed, spec.n * m).reshape(spec.n, m)
    Q = np.empty((spec.n, m))
    for j, row in enumerate(movable):
        lo, hi = row.limits
        Q[:, j] = lo + (hi - lo) * u[:, j]
    return Q


def generate_cloud(model: RobotModel, spec: SampleSpec) -> PointCloud:
    """Sample the joint space and evaluate FK; points in sample order."""
    # a contiguous copy, so neither the configurations nor the (n, 4, 4)
    # transforms outlive this call
    points = fk_batch(model, joint_samples(model, spec))[:, :3, 3].copy()
    points.flags.writeable = False
    return PointCloud(points=points, robot=model.name, seed=spec.seed, n=spec.n)


def voxelize(cloud: PointCloud, resolution: float) -> VoxelGrid:
    """Quantize the cloud onto the origin-anchored grid.

    Raises ValueError when the resolution is not a positive finite number,
    when its cube overflows, or when the grid is too fine for the cloud: a
    voxel index of magnitude 2**62 or more, or a box of more than 2**62
    voxels, whose packed keys would not fit in int64.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"voxel resolution must be a positive finite number, got {resolution}")
    try:
        resolution ** 3  # as in VoxelGrid.volume_estimate
    except OverflowError:
        raise ValueError(f"voxel resolution {resolution} is too coarse: "
                         "the voxel volume overflows") from None
    scaled = cloud.points / resolution
    if scaled.size == 0:
        return VoxelGrid(resolution, np.empty(0, dtype=np.int64), (0, 0, 0), (0, 0, 0))
    if not np.abs(scaled).max() < _INDEX_LIMIT:
        raise ValueError(f"voxel resolution {resolution} is too fine for this cloud: "
                         "a voxel index reaches 2**62")
    idx = np.floor(scaled, out=scaled).astype(np.int64)
    lo = tuple(int(v) for v in idx.min(axis=0))
    span = tuple(int(h) - l + 1 for h, l in zip(idx.max(axis=0).tolist(), lo))
    if span[0] * span[1] * span[2] > _INDEX_LIMIT:
        raise ValueError(f"voxel resolution {resolution} is too fine for this cloud: "
                         "its box holds more than 2**62 voxels")
    idx -= lo
    keys = (idx[:, 0] * span[1] + idx[:, 1]) * span[2] + idx[:, 2]
    keys.sort()
    distinct = np.concatenate(([True], keys[1:] != keys[:-1]))
    return VoxelGrid(resolution, keys[distinct], lo, span)


def project(cloud: PointCloud, plane: str) -> np.ndarray:
    """(n, 2) view of the cloud: xy drops z, xz drops y, yz drops x."""
    columns = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
    try:
        i, j = columns[plane]
    except KeyError:
        raise ValueError(f"plane must be one of xy, xz, yz; got {plane!r}") from None
    return cloud.points[:, (i, j)]


def summarize(cloud: PointCloud, resolution: float) -> WorkspaceSummary:
    """Bounding box, max reach, and voxel-occupancy volume of a cloud."""
    if cloud.points.shape[0] == 0:
        raise ValueError("cannot summarize an empty cloud")
    grid = voxelize(cloud, resolution)
    # one pass per column is cheaper than reducing the short rows of (n, 3)
    columns = cloud.points.T
    x, y, z = columns
    # (x*x + y*y) + z*z is the sum order of np.linalg.norm(points, axis=1),
    # and sqrt is monotone and correctly rounded: the same bits as its
    # largest value, without a square root per point
    r2 = x * x
    r2 += y * y
    r2 += z * z
    reach = math.sqrt(float(r2.max()))
    return WorkspaceSummary(
        robot=cloud.robot,
        n=cloud.n,
        seed=cloud.seed,
        bbox_min=tuple(float(c.min()) for c in columns),
        bbox_max=tuple(float(c.max()) for c in columns),
        max_reach=reach,
        voxel_resolution=resolution,
        occupied_count=grid.occupied_count,
        volume_estimate=grid.volume_estimate,
    )
