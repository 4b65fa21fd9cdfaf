"""Monte Carlo workspace mapping: point clouds, voxel volumes, projections.

Joint configurations are drawn uniformly within each movable joint's limits
from a single splitmix64 stream, so a cloud is fully determined by
(model, n, seed) and is byte-reproducible under the same libm. Sample k
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

from .kinematics import RobotModel, _Record, fk_batch
from .rng import MASK64, bulk_unit

#: bound on voxel indices and on voxels per box, so packed keys fit in int64
_INDEX_LIMIT = 2 ** 62


class SampleSpec(_Record):
    """Sampling request: how many configurations, from which seed."""

    __slots__ = _fields = ("n", "seed")

    def __init__(self, n: int, seed: int = 42):
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        if not 0 <= seed <= MASK64:  # the stream's state is 64 bits; bulk_unit refuses others
            raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {seed}")
        self._set(n, seed)


class PointCloud(_Record):
    """End-effector positions in sample order, a read-only (k, 3) float64
    array in meters with k >= 1, and their provenance. The cloud copies every
    array a caller passes, so its cached bounds (in its __dict__) always hold;
    generate_cloud hands its own over. A cloud equals only itself."""

    _fields = ("points", "robot", "seed")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, points: np.ndarray, robot: str, seed: int):
        import numpy as np
        points = np.array(points, np.float64, order="C")
        if points.shape[1:] != (3,) or points.size == 0:
            raise ValueError(f"points shape {points.shape} is not (k, 3) with k >= 1")
        points.flags.writeable = False
        self._set(points, robot, seed)

    #: _extremes of the points, computed once for the voxel box, the bounding box and the reach
    _bounds = functools.cached_property(lambda self: _extremes(self.points))


def _extremes(points) -> tuple:
    """(per-axis minima, per-axis maxima, largest (x*x + y*y) + z*z) of the
    (n, 3) points, a block at a time on _each_block, each column of a block's
    contiguous copy alone (strided reductions are slower). With the sum in
    np.linalg.norm's order, the (monotone, correctly rounded) sqrt of the largest is the largest norm."""
    import numpy as np
    parts = np.empty((-(-len(points) // _BLOCK), 7))  # per block: 3 minima, 3 maxima, largest r2

    def take(start: int, stop: int) -> None:
        x, y, z = columns = np.ascontiguousarray(points[start:stop].T)
        with np.errstate(over="ignore", invalid="ignore"):  # voxelize refuses such a cloud by name
            r2 = x * x + y * y + z * z
        parts[start // _BLOCK] = [c.min() for c in columns] + [c.max() for c in columns] + [r2.max()]

    _each_block(len(points), take)  # min and max propagate nan: a block's nan survives the merge
    lows, highs = parts[:, :3].min(axis=0), parts[:, 3:6].max(axis=0)
    return tuple(lows.tolist()), tuple(highs.tolist()), float(parts[:, 6].max())


class VoxelGrid(_Record):
    """How many voxels of the origin-anchored grid a cloud occupies.

    A point p belongs to voxel floor(p / resolution), componentwise, so
    counts at equal resolution count cells of one grid, whatever the cloud.
    """

    __slots__ = _fields = ("occupied_count",)

    def __init__(self, occupied_count: int):
        self._set(occupied_count)


def joint_samples(model: RobotModel, spec: SampleSpec, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Rows start..stop (default 0..n) of the (n, m) matrix of sampled
    configurations, row k = sample k.

    Column j of row k is min + (max - min) * u for movable row j, with u
    the next draw of SplitMix64(spec.seed) in row-major order, so q lands
    in [min, max) except in the degenerate min == max case. Any row range
    draws the same bits as the whole matrix's slice; a range outside
    0 <= start <= stop <= spec.n raises ValueError.
    """
    import numpy as np
    movable = model.movable_rows
    m = len(movable)
    if m == 0:
        raise ValueError(f"model {model.name!r} has no movable joints to sample")
    if stop is None:
        stop = spec.n
    if not 0 <= start <= stop <= spec.n:
        raise ValueError(f"rows {start}..{stop} are not a range of 0..{spec.n}")
    lo, hi = np.array([row.limits for row in movable]).T
    Q = bulk_unit(spec.seed, (stop - start) * m, start * m).reshape(stop - start, m)
    Q *= hi - lo
    Q += lo
    return Q


#: rows per block in generate_cloud and cli._rows_text: it bounds the working
#: set (a block's draws and kernel columns, or its digit words and text) to a
#: few MB at any n
_BLOCK = 16384


def generate_cloud(model: RobotModel, spec: SampleSpec) -> PointCloud:
    """Sample the joint space and evaluate FK; points in sample order.

    _each_block draws and evaluates blocks of _BLOCK samples, so no (n, m)
    or (n, 4, 4) array exists. Each block writes only its own rows and every
    operation is elementwise, so the bytes do not depend on the thread count.
    The cloud takes the array over uncopied, and computes its bounds when read.
    """
    import numpy as np
    n = spec.n
    if n > np.iinfo(np.intp).max // 24:  # more bytes than an array can index
        raise MemoryError(f"cannot allocate {n} points")
    points = np.empty((n, 3))

    def fill(start: int, stop: int) -> None:
        points[start:stop] = fk_batch(model, joint_samples(model, spec, start, stop), pose=False)

    _each_block(n, fill)
    points.flags.writeable = False
    cloud = object.__new__(PointCloud)  # not __init__, which would copy the array
    cloud._set(points, model.name, spec.seed)
    return cloud


def _each_block(n: int, fn) -> None:
    """fn(start, stop) for each block of _BLOCK rows of 0..n, on up to one
    thread per CPU. The caller is worker 0, so one block starts no thread, and
    runs the share of a thread that cannot start. The first exception of any
    block is raised here after every thread has ended."""
    starts = range(0, n, _BLOCK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(starts))
    failures = []

    def run(first: int) -> None:
        try:
            for start in starts[first::workers]:
                if failures:  # another worker failed: the call is over
                    return
                fn(start, min(start + _BLOCK, n))
        except BaseException as exc:  # raised again by the caller after the joins
            failures.append(exc)

    threads = []
    for i in range(1, workers):
        thread = threading.Thread(target=run, args=(i,))
        try:
            thread.start()
            threads.append(thread)
        except RuntimeError:  # the process may start no more threads: run this share here
            run(i)
    run(0)  # the caller's thread is worker 0
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def voxelize(cloud: PointCloud, resolution: float) -> VoxelGrid:
    """Count the voxels of the origin-anchored grid that the cloud occupies.

    Raises ValueError when the resolution is not a positive finite number,
    when a point is not finite, when no resolution whose cube summarize
    can take holds the cloud (the message names the cloud's bounds, not
    the resolution), or when the grid is too fine for the cloud: a voxel
    index of magnitude 2**62 or more, or a box of more than 2**62 voxels,
    whose packed keys would not fit in int64.
    """
    import numpy as np
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"voxel resolution must be a positive finite number, got {resolution}")
    points = cloud.points
    bounds = cloud._bounds[:2]  # min and max propagate nan, so these catch every bad point
    if not all(map(math.isfinite, bounds[0] + bounds[1])):
        raise ValueError("the cloud holds a point that is not finite")
    extent = max(abs(v) for side in bounds for v in side)
    # an accepted resolution r has r > extent / 2**62 (the index limit) and
    # r**3 > w0 / 2**62 * w1 * w2 (the box limit, as an axis of width
    # w = max - min spans more than w / r voxels): where either lower bound
    # on r**3 overflows, no r**3 is finite, and summarize needs one that is
    finest = extent / _INDEX_LIMIT
    w0, w1, w2 = (h - l for l, h in zip(*bounds))
    if not (math.isfinite(finest * finest * finest) and math.isfinite(w0 / _INDEX_LIMIT * w1 * w2)):
        raise ValueError(f"no voxel grid holds this cloud: its bounds are {bounds[0]} and {bounds[1]} m")
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
    # voxel (i, j, k) packs to ((i - lo0) * span1 + (j - lo1)) * span2 + (k - lo2),
    # a block at a time by _each_block; only the sort is one pass
    keys = np.zeros(points.shape[0], dtype=np.int64)

    def pack(start: int, stop: int) -> None:
        block, index = keys[start:stop], np.empty(stop - start, dtype=np.int64)
        for column, axis_lo, axis_span in zip(points[start:stop].T, lo, span):
            np.floor(column / resolution, out=index, casting="unsafe")
            index -= axis_lo  # before accumulating, so no sum leaves int64 range
            block *= axis_span
            block += index

    _each_block(len(points), pack)
    keys.sort()
    return VoxelGrid(1 + int(np.count_nonzero(keys[1:] != keys[:-1])))


def project(cloud: PointCloud, plane: str) -> np.ndarray:
    """(n, 2) read-only view of the cloud: xy drops z, xz drops y, yz drops x."""
    columns = {"xy": slice(None, 2), "xz": slice(None, None, 2), "yz": slice(1, None)}
    try:
        return cloud.points[:, columns[plane]]
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
    bbox_min, bbox_max, max_r2 = cloud._bounds
    return {
        "robot": cloud.robot,
        "n": len(cloud.points),
        "seed": cloud.seed,
        "voxel_resolution": resolution,
        "occupied_count": grid.occupied_count,
        "volume_m3": volume,
        "max_reach_m": math.sqrt(max_r2),
        "bbox_min": list(bbox_min),
        "bbox_max": list(bbox_max),
    }
