"""Monte Carlo workspace mapping: point clouds, voxel volumes, projections.

Joint configurations are drawn uniformly within each movable joint's limits
from a single splitmix64 stream, so a cloud is fully determined by
(model, n, seed) and is byte-reproducible across platforms. Sample k
consumes draws (k-1)*m+1 .. k*m of the stream, where m is the movable
joint count. The generator state advances additively, so
rng.bulk_unit(seed, count, offset) with offset = (k-1)*m starts the stream
at sample k in O(1), which keeps partitioned or resumed runs exactly equal
to a sequential one; generate_cloud uses it to sample in blocks of _BLOCK.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .kinematics import RobotModel, fk_batch
from .rng import MASK64, bulk_unit

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
        if not 0 <= self.seed <= MASK64:  # bulk_unit would alias it to seed & MASK64
            raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {self.seed}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """End-effector positions in sample order, with their provenance.

    A cloud holds at least one point. It keeps its own read-only copy of
    the points, so their cached per-axis bounds always hold.
    """

    points: np.ndarray  # (k, 3) float64, meters
    robot: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.array(self.points, dtype=np.float64, order="C"))
        if self.points.shape[1:] != (3,) or self.points.size == 0:
            raise ValueError(f"points shape {self.points.shape} is not (k, 3) with k >= 1")
        self.points.flags.writeable = False

    @functools.cached_property
    def _bounds(self) -> tuple:
        """(per-axis minima, per-axis maxima), computed once for the voxel box
        and the bounding box; column passes beat (n, 3) rows."""
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


def joint_samples(model: RobotModel, spec: SampleSpec, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Rows start..stop (default 0..n) of the (n, m) matrix of sampled
    configurations, row k = sample k.

    Column j of row k is min + (max - min) * u for movable row j, with u
    the next draw of SplitMix64(spec.seed) in row-major order, so q lands
    in [min, max) except in the degenerate min == max case. Any row range
    draws the same bits as the whole matrix's slice.
    """
    movable = model.movable_rows
    m = len(movable)
    if m == 0:
        raise ValueError(f"model {model.name!r} has no movable joints to sample")
    if stop is None:
        stop = spec.n
    lo, hi = np.array([row.limits for row in movable]).T
    Q = bulk_unit(spec.seed, (stop - start) * m, start * m).reshape(stop - start, m)
    Q *= hi - lo
    Q += lo
    return Q


#: rows per block in generate_cloud and cli._rows_text: it bounds the working
#: set (a block's draws, kernel columns or format tuple) to a few MB at any n
_BLOCK = 16384


def generate_cloud(model: RobotModel, spec: SampleSpec) -> PointCloud:
    """Sample the joint space and evaluate FK; points in sample order.

    Blocks of _BLOCK samples are drawn and evaluated one at a time, so no
    (n, m) or (n, 4, 4) array exists, on up to one thread per CPU. Each
    block writes only its own rows and every operation is elementwise, so
    the bytes do not depend on the thread count. An exception in any block
    is raised here after every thread has ended.
    """
    n = spec.n
    if n > np.iinfo(np.intp).max // 24:  # more bytes than an array can index
        raise MemoryError(f"cannot allocate {n} points")
    points = np.empty((n, 3))
    starts = range(0, n, _BLOCK)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    failures = []

    def fill(first: int) -> None:
        try:
            for start in starts[first::workers]:
                if failures:  # another worker failed: the call is over
                    return
                stop = min(start + _BLOCK, n)
                points[start:stop] = fk_batch(model, joint_samples(model, spec, start, stop))[:, :3, 3]
        except BaseException as exc:  # raised again by the caller after the joins
            failures.append(exc)

    threads, mine = [], [0]  # the caller's thread is worker 0
    for i in range(1, workers):
        thread = threading.Thread(target=fill, args=(i,))
        try:
            thread.start()
            threads.append(thread)
        except RuntimeError:  # the process may start no more threads: run this share here
            mine.append(i)
    for i in mine:
        fill(i)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return PointCloud(points=points, robot=model.name, seed=spec.seed)


def voxelize(cloud: PointCloud, resolution: float) -> VoxelGrid:
    """Quantize the cloud onto the origin-anchored grid.

    Raises ValueError when the resolution is not a positive finite number,
    when a point is not finite, when no resolution whose cube summarize
    can take is coarse enough for the cloud (the message names the cloud's
    extent, not the resolution), or when the grid is too fine for the
    cloud: a voxel index of magnitude 2**62 or more, or a box of more than
    2**62 voxels, whose packed keys would not fit in int64.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"voxel resolution must be a positive finite number, got {resolution}")
    points = cloud.points
    bounds = cloud._bounds  # min and max propagate nan, so these catch every bad point
    if not all(map(math.isfinite, bounds[0] + bounds[1])):
        raise ValueError("the cloud holds a point that is not finite")
    extent = max(abs(v) for side in bounds for v in side)
    try:  # the finest resolution the index limit allows: if its cube overflows, so do all coarser ones
        (extent / _INDEX_LIMIT) ** 3
    except OverflowError:
        raise ValueError(f"no voxel grid holds this cloud: it reaches {extent} m along an axis") from None
    # division by a positive resolution and floor are monotone, so the
    # extent gives the index check, and the six bounds the box, before any
    # point is divided
    if extent / resolution >= _INDEX_LIMIT:
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
    """(n, 2) read-only view of the cloud: xy drops z, xz drops y, yz drops x."""
    columns = {"xy": np.s_[:, :2], "xz": np.s_[:, ::2], "yz": np.s_[:, 1:]}
    try:
        return cloud.points[columns[plane]]
    except KeyError:
        raise ValueError(f"plane must be one of xy, xz, yz; got {plane!r}") from None


def summarize(cloud: PointCloud, resolution: float) -> dict:
    """The JSON record `volume` prints: provenance, voxel-occupancy volume
    (occupied count times the voxel's cube), max reach and bounding box.
    Raises ValueError for a resolution voxelize rejects, a voxel whose cube
    overflows, or a volume that is not finite."""
    grid = voxelize(cloud, resolution)
    try:
        volume = grid.occupied_count * resolution ** 3
    except OverflowError:
        raise ValueError(f"voxel resolution {resolution} is too coarse: "
                         "the voxel volume overflows") from None
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
