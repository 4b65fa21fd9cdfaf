"""Sampling, clouds, voxel grids, projections, summaries."""

import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as nt
import pytest

from dhworkspace import (
    REVOLUTE,
    DHRow,
    PointCloud,
    RobotModel,
    SampleSpec,
    VoxelGrid,
    builtin_fixture,
    fk_batch,
    generate_cloud,
    joint_samples,
    project,
    reach_bound,
    summarize,
    voxelize,
)
from dhworkspace import workspace
from dhworkspace.workspace import _BLOCK as B
from dhworkspace.rng import GOLDEN, MASK64, SplitMix64
from fk_reference import ref_ee


def limits_matrix(model):
    return np.array([row.limits for row in model.movable_rows])


def collapse_limits(model, value=0.0):
    """Model with every joint pinned to a single value via min == max."""
    rows = tuple(
        DHRow(r.kind, r.a, r.alpha, r.d, r.theta_offset, limits=(value, value),
              fixed=value if r.fixed is not None else None)
        for r in model.rows)
    return RobotModel(model.name, rows)


def cloud_of(points):
    return PointCloud(points=points, robot="test", seed=0)


def cpus(count):
    """Make generate_cloud see `count` CPUs in the process's affinity mask."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)), create=True)


# the scalar reference that joint_samples is compared against
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


# --- SampleSpec / sample_config ---------------------------------------------

def test_spec_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        SampleSpec(n=0)


def test_spec_rejects_seeds_outside_64_bits():
    # the stream's state is 64 bits, so 2**64 + 42 could only name seed 42's
    # stream while the cloud records the larger number
    for seed in (-1, 2 ** 64, 2 ** 64 + 42):
        with pytest.raises(ValueError, match="seed"):
            SampleSpec(n=1, seed=seed)
    assert SampleSpec(n=1, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


def test_sample_config_respects_limits_and_skips_fixed():
    wam = builtin_fixture("wam")
    state = SplitMix64(123)
    q = sample_config(wam, state)
    assert q.shape == (6,)
    lims = limits_matrix(wam)
    assert ((q >= lims[:, 0]) & (q < lims[:, 1])).all()


def test_sample_config_advances_state_by_movable_count():
    wam = builtin_fixture("wam")
    state = SplitMix64(5)
    sample_config(wam, state)
    assert state.state == (5 + wam.movable_count * GOLDEN) & MASK64


def test_sample_config_is_deterministic():
    smokie = builtin_fixture("smokie")
    assert np.array_equal(sample_config(smokie, SplitMix64(9)),
                          sample_config(smokie, SplitMix64(9)))


def test_degenerate_interval_samples_exactly_the_value():
    model = collapse_limits(builtin_fixture("wam"), value=0.7)
    q = sample_config(model, SplitMix64(0))
    assert (q == 0.7).all()


# --- joint_samples -----------------------------------------------------------

def test_joint_samples_equals_scalar_loop():
    for name in ("smokie", "wam"):
        model = builtin_fixture(name)
        Q = joint_samples(model, SampleSpec(n=100, seed=42))
        state = SplitMix64(42)
        rows = np.array([sample_config(model, state) for _ in range(100)])
        assert np.array_equal(Q, rows)


def test_joint_samples_shape_and_containment():
    wam = builtin_fixture("wam")
    Q = joint_samples(wam, SampleSpec(n=5000, seed=1))
    assert Q.shape == (5000, 6)
    lims = limits_matrix(wam)
    assert ((Q >= lims[:, 0]) & (Q < lims[:, 1])).all()


def test_joint_samples_mean_sits_at_interval_midpoint():
    smokie = builtin_fixture("smokie")
    Q = joint_samples(smokie, SampleSpec(n=100000, seed=42))
    nt.assert_allclose(Q.mean(axis=0), np.zeros(6), atol=0.02)


def test_joint_samples_needs_a_movable_joint():
    wam = builtin_fixture("wam")
    rows = tuple(DHRow(r.kind, r.a, r.alpha, r.d, r.theta_offset, r.limits, fixed=0.0) for r in wam.rows)
    frozen = RobotModel(wam.name, rows)
    with pytest.raises(ValueError):
        joint_samples(frozen, SampleSpec(n=1))
    # from the caller's thread alone, and from two workers over three blocks
    for n in (1, 2 * B + 1):
        with cpus(2), pytest.raises(ValueError, match="no movable joints"):
            generate_cloud(frozen, SampleSpec(n=n))


def test_joint_samples_row_range_is_a_slice_of_the_matrix():
    wam = builtin_fixture("wam")
    spec = SampleSpec(n=100, seed=9)
    whole = joint_samples(wam, spec)
    for start, stop in ((0, 100), (0, 1), (37, 64), (99, 100), (50, 50)):
        part = joint_samples(wam, spec, start, stop)
        assert part.shape == (stop - start, 6)
        assert part.tobytes() == whole[start:stop].tobytes()


def test_joint_samples_refuses_rows_outside_the_matrix():
    wam = builtin_fixture("wam")
    spec = SampleSpec(n=10, seed=9)
    # past n, before the stream's start, and inverted
    for start, stop in ((8, 15), (-3, 2), (5, 3), (11, None), (0, 11)):
        with pytest.raises(ValueError, match="not a range of 0..10"):
            joint_samples(wam, spec, start, stop)
    assert joint_samples(wam, spec, 10).shape == (0, 6)


def test_state_for_sample_reconstructs_mid_stream():
    wam = builtin_fixture("wam")
    Q = joint_samples(wam, SampleSpec(n=64, seed=42))
    m = wam.movable_count
    for k in (1, 2, 31, 64):
        # the state just before sample k, from one multiply-add
        state = SplitMix64((42 + (k - 1) * m * GOLDEN) & MASK64)
        assert np.array_equal(sample_config(wam, state), Q[k - 1])


# --- generate_cloud -----------------------------------------------------------

def test_cloud_shape_and_provenance():
    wam = builtin_fixture("wam")
    cloud = generate_cloud(wam, SampleSpec(n=300, seed=8))
    assert cloud.points.shape == (300, 3)
    assert cloud.robot == "WAM"
    assert cloud.seed == 8


def test_cloud_matches_per_sample_fk():
    smokie = builtin_fixture("smokie")
    cloud = generate_cloud(smokie, SampleSpec(n=20, seed=3))
    state = SplitMix64(3)
    for k in range(20):
        q = sample_config(smokie, state)
        nt.assert_allclose(cloud.points[k], ref_ee(smokie, q), rtol=0, atol=1e-13)


def test_cloud_is_deterministic():
    wam = builtin_fixture("wam")
    a = generate_cloud(wam, SampleSpec(n=1000, seed=42))
    b = generate_cloud(wam, SampleSpec(n=1000, seed=42))
    assert np.array_equal(a.points, b.points)


def test_cloud_prefix_is_bitwise_equal():
    wam = builtin_fixture("wam")
    small = generate_cloud(wam, SampleSpec(n=500, seed=42))
    large = generate_cloud(wam, SampleSpec(n=2000, seed=42))
    assert np.array_equal(small.points, large.points[:500])


@pytest.mark.parametrize("name", ["wam", "smokie"])
def test_cloud_bytes_do_not_depend_on_the_worker_count(name):
    model = builtin_fixture(name)
    for n in (1, B - 1, B, B + 1, 3 * B + 7):
        spec = SampleSpec(n=n, seed=5)
        single_pass = fk_batch(model, joint_samples(model, spec))[:, :3, 3]
        blocks = -(-n // B)
        for count in (1, 2, 3):
            with cpus(count), mock.patch.object(threading, "Thread", wraps=threading.Thread) as thread:
                points = generate_cloud(model, spec).points
            assert points.tobytes() == single_pass.tobytes()
            # the caller's thread is worker 0, so one block starts no thread
            assert thread.call_count == min(count, blocks) - 1


def test_a_failing_block_is_raised_after_every_thread_ends():
    wam = builtin_fixture("wam")
    spec = SampleSpec(n=3 * B + 7, seed=1)
    doomed = joint_samples(wam, spec, B, B + 1)[0]  # block 1 starts here; worker 1 runs it

    def fk_batch_failing_at_block_1(model, Q, **kwargs):
        if np.array_equal(Q[0], doomed):
            raise MemoryError("block 1")
        return fk_batch(model, Q, **kwargs)

    before = threading.active_count()
    with cpus(2), mock.patch.object(workspace, "fk_batch", fk_batch_failing_at_block_1):
        with pytest.raises(MemoryError, match="block 1"):
            generate_cloud(wam, spec)
    assert threading.active_count() == before


def test_workers_whose_thread_cannot_start_run_in_the_caller():
    wam = builtin_fixture("wam")
    spec = SampleSpec(n=3 * B + 7, seed=2)
    single_pass = fk_batch(wam, joint_samples(wam, spec))[:, :3, 3]
    real_start = threading.Thread.start
    started = []

    def start_one(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        real_start(thread)

    before = threading.active_count()
    with cpus(3), mock.patch.object(threading.Thread, "start", start_one):
        points = generate_cloud(wam, spec).points
    assert len(started) == 1 and threading.active_count() == before
    assert points.tobytes() == single_pass.tobytes()


def test_single_sample_of_degenerate_robot_is_origin():
    model = RobotModel(name="dot", rows=(
        DHRow(kind=REVOLUTE, a=0.0, alpha=0.0, d=0.0,
              limits=(-1.0, 1.0)),))
    cloud = generate_cloud(model, SampleSpec(n=1, seed=0))
    assert cloud.points.shape == (1, 3)
    nt.assert_allclose(cloud.points[0], [0.0, 0.0, 0.0])


def test_collapsed_wam_pins_every_point_to_zero_config():
    model = collapse_limits(builtin_fixture("wam"))
    cloud = generate_cloud(model, SampleSpec(n=50, seed=1))
    nt.assert_allclose(cloud.points, np.tile([0.0, 0.0, 0.91], (50, 1)), atol=1e-12)


def test_every_point_satisfies_reach_bound():
    for name in ("smokie", "wam", "wam-code-variant"):
        model = builtin_fixture(name)
        cloud = generate_cloud(model, SampleSpec(n=2000, seed=42))
        r = np.linalg.norm(cloud.points, axis=1)
        assert r.max() <= reach_bound(model) + 1e-12


def test_cloud_points_are_read_only():
    cloud = generate_cloud(builtin_fixture("wam"), SampleSpec(n=10, seed=0))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 99.0


def test_the_sampler_hands_its_array_over_and_other_arrays_are_copied():
    points = generate_cloud(builtin_fixture("wam"), SampleSpec(n=10, seed=0)).points
    assert not points.flags.writeable and points.flags.owndata
    # a caller's array is copied whatever its flags, even a read-only one
    # that owns its data: its holder can make it writeable again
    source = np.zeros((2, 3))
    view = source.view()
    view.flags.writeable = False
    for given in (points, source, view):
        assert not np.shares_memory(cloud_of(given).points, given)


def test_the_sampler_makes_no_second_array_of_its_points():
    # the cloud takes over the (n, 3) array the blocks fill, 24 bytes a
    # sample; a copy would double that, while each worker's block scratch is
    # a few MB whatever n is
    n = 32 * B + 7
    with cpus(2):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()  # in case tracing was already on
            held = tracemalloc.get_traced_memory()[0]
            generate_cloud(builtin_fixture("wam"), SampleSpec(n=n, seed=3))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert 24 * n < peak < 2 * 24 * n


def test_point_cloud_shape_is_checked():
    for shape in ((3,), (3, 2), (3, 3, 1), (0, 3)):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros(shape), robot="x", seed=0)


def test_cloud_keeps_its_own_copy_of_the_points():
    # mutating the caller's array after summarize changes neither a second
    # summarize nor voxelize: the cloud's cached bounds stay true, and its
    # second point keeps a voxel of its own. That holds for a read-only
    # array that owns its data too, which its holder can make writeable
    for read_only in (False, True):
        source = np.zeros((2, 3))
        source[1] = 1.0
        source.flags.writeable = not read_only
        cloud = PointCloud(points=source, robot="x", seed=0)
        first = summarize(cloud, 0.02)
        source.flags.writeable = True
        source[1] = 0.0
        assert summarize(cloud, 0.02) == first
        assert first["bbox_max"] == [1.0, 1.0, 1.0]
        assert voxelize(cloud, 0.02) == VoxelGrid(2)
        assert not cloud.points.flags.writeable and cloud.points.flags.c_contiguous


# --- voxelize ------------------------------------------------------------------

def floor_cells(points, resolution):
    """The set of voxels the points fall in, as (i, j, k) tuples."""
    return set(map(tuple, np.floor(points / resolution).astype(np.int64).tolist()))


def along(axis, values):
    """A cloud of points on one axis, at the given coordinates."""
    points = np.zeros((len(values), 3))
    points[:, axis] = values
    return cloud_of(points)


def test_voxel_floor_rule():
    # at 0.01, ceil splits 0.0 from 0.005 and rounding 0.0 from 0.0099, and a
    # grid anchored at the cloud's minimum would join 0.0099 and 0.01
    for axis in range(3):
        assert voxelize(along(axis, [0.0, 0.005, 0.0099]), 0.01).occupied_count == 1
        assert voxelize(along(axis, [0.0099, 0.01]), 0.01).occupied_count == 2


def test_voxel_negative_coordinates_floor_down():
    # truncation and rounding join -0.001 and 0.001 in voxel 0, and split
    # -0.01 from -0.001; floor does the opposite
    for axis in range(3):
        assert voxelize(along(axis, [-0.001, 0.001]), 0.01).occupied_count == 2
        assert voxelize(along(axis, [-0.01, -0.0099, -0.001]), 0.01).occupied_count == 1


def test_voxel_set_semantics():
    grid = voxelize(cloud_of([[0.001, 0.001, 0.001], [0.009, 0.002, 0.0]]), 0.01)
    assert grid.occupied_count == 1


def test_voxel_empty_cloud():
    # a cloud holds at least one point, so voxelize never sees an empty one
    with pytest.raises(ValueError, match="k >= 1"):
        cloud_of(np.empty((0, 3)))


def test_voxel_rejects_nonpositive_resolution():
    with pytest.raises(ValueError):
        voxelize(cloud_of([[0, 0, 0]]), 0.0)
    with pytest.raises(ValueError):
        voxelize(cloud_of([[0, 0, 0]]), -0.1)


def test_voxel_rejects_grids_that_overflow():
    unit = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    for resolution in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            voxelize(unit, resolution)
    # the voxel's cube is summarize's business: voxelize packs the one voxel
    assert voxelize(unit, 1e300).occupied_count == 1
    with pytest.raises(ValueError, match="overflows"):
        summarize(unit, 1e300)
    with pytest.raises(ValueError, match="index"):
        voxelize(unit, 1e-20)
    # only the minimum reaches the limit: -1 / 1e-19 = -1e19 < -2**62
    with pytest.raises(ValueError, match="index"):
        voxelize(cloud_of([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1e-19)
    # every index is small, but the box holds (2e6 + 1)**3 > 2**62 voxels
    with pytest.raises(ValueError, match="box"):
        voxelize(unit, 5e-7)
    assert voxelize(unit, 1e-6).occupied_count == 2


@pytest.mark.parametrize("resolution", [1e90, 5e102, 5.6e102, 6e102, 1e104])
def test_a_cloud_no_box_can_hold_is_named_whatever_the_resolution(resolution):
    # every index fits at these resolutions, but a box of at most 2**62 voxels
    # needs r**3 > (2e109)**3 / 2**62, which overflows: the cloud is at fault
    far = cloud_of([[1e109, 1e109, 1e109], [-1e109, -1e109, -1e109]])
    with pytest.raises(ValueError, match="no voxel grid holds this cloud"):
        summarize(far, resolution)


@pytest.mark.parametrize("points", [[[math.nan, 0.0, 0.0], [1.0, 1.0, 1.0]],
                                    [[0.0, 0.0, 0.0], [math.nan, 1.0, 1.0]],
                                    [[math.inf, 0.0, 0.0]], [[0.0, -math.inf, 0.0]]])
def test_a_point_that_is_not_finite_is_named(points):
    cloud = cloud_of(points)
    for reduce in (voxelize, summarize):
        with pytest.raises(ValueError, match="a point that is not finite"):
            reduce(cloud, 0.02)


def test_voxel_count_matches_tuple_set_with_negative_coordinates():
    rng = np.random.default_rng(12)
    points = rng.uniform(-1.3, 0.4, size=(3000, 3))
    points[::7] = np.round(points[::7], 2)  # some points on voxel faces
    for resolution in (0.01, 0.05, 0.3, 2.0):
        grid = voxelize(cloud_of(points), resolution)
        assert grid == VoxelGrid(len(floor_cells(points, resolution)))
        assert type(grid.occupied_count) is int  # json.dumps takes no numpy integer


def test_voxel_order_independence():
    # at 0.5 most of the 500 points share a voxel with others
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(500, 3))
    shuffled = pts[rng.permutation(500)]
    for resolution in (0.05, 0.5):
        expected = len(floor_cells(pts, resolution))
        assert voxelize(cloud_of(pts), resolution).occupied_count == expected
        assert voxelize(cloud_of(shuffled), resolution).occupied_count == expected


def test_volume_estimate_identity():
    cloud = cloud_of(np.random.default_rng(1).uniform(-1, 1, (200, 3)))
    grid = voxelize(cloud, 0.07)
    assert summarize(cloud, 0.07)["volume_m3"] == grid.occupied_count * 0.07 ** 3


def test_every_cloud_point_is_reachable_in_its_grid():
    # the grid counts each voxel that a point of the cloud falls in, once
    cloud = generate_cloud(builtin_fixture("smokie"), SampleSpec(n=500, seed=6))
    assert voxelize(cloud, 0.02).occupied_count == len(floor_cells(cloud.points, 0.02))


def test_point_beyond_reach_bound_is_unreachable():
    # every point's voxel has a corner within the reach bound, and no point
    # falls in a voxel beyond it
    model = builtin_fixture("wam")
    bound = reach_bound(model)
    cells = np.floor(generate_cloud(model, SampleSpec(n=2000, seed=42)).points / 0.05)
    nearest = np.clip(0.0, cells * 0.05, (cells + 1) * 0.05)
    assert (np.linalg.norm(nearest, axis=1) <= bound).all()
    far = np.floor(np.array([bound + 0.5, 0.0, 0.0]) / 0.05)
    assert not (cells == far).all(axis=1).any()


# --- project -------------------------------------------------------------------

def test_projection_drops_the_right_axis():
    cloud = cloud_of([[1.0, 2.0, 3.0]])
    assert project(cloud, "xy").tolist() == [[1.0, 2.0]]
    assert project(cloud, "xz").tolist() == [[1.0, 3.0]]
    assert project(cloud, "yz").tolist() == [[2.0, 3.0]]


def test_projection_preserves_order():
    cloud = generate_cloud(builtin_fixture("wam"), SampleSpec(n=100, seed=2))
    uv = project(cloud, "xz")
    assert np.array_equal(uv, cloud.points[:, [0, 2]])


def test_projection_is_a_read_only_view():
    cloud = cloud_of(np.arange(12.0).reshape(4, 3))
    for plane in ("xy", "xz", "yz"):
        uv = project(cloud, plane)
        assert np.shares_memory(uv, cloud.points)
        assert not uv.flags.writeable


def test_projection_rejects_unknown_plane():
    with pytest.raises(ValueError):
        project(cloud_of([[0, 0, 0]]), "zz")


# --- summarize -------------------------------------------------------------------

def test_summary_single_point():
    s = summarize(cloud_of([[0.0, 0.0, 0.0]]), 0.01)
    assert s["occupied_count"] == 1
    assert s["volume_m3"] == pytest.approx(1e-6, rel=1e-12)
    assert s["max_reach_m"] == 0.0
    assert s["bbox_min"] == [0.0, 0.0, 0.0]
    assert s["bbox_max"] == [0.0, 0.0, 0.0]


def test_summary_ignores_duplicates():
    one = summarize(cloud_of([[0.3, -0.2, 0.1]]), 0.05)
    many = summarize(cloud_of([[0.3, -0.2, 0.1]] * 40), 0.05)
    assert many["occupied_count"] == one["occupied_count"]
    assert many["volume_m3"] == one["volume_m3"]
    assert many["max_reach_m"] == one["max_reach_m"]
    assert many["bbox_min"] == one["bbox_min"]


def test_summary_rejects_empty_cloud():
    with pytest.raises(ValueError):
        summarize(cloud_of(np.empty((0, 3))), 0.01)


def test_summary_fields_are_consistent():
    wam = builtin_fixture("wam")
    cloud = generate_cloud(wam, SampleSpec(n=20000, seed=42))
    s = summarize(cloud, 0.05)
    assert s["n"] == 20000 and s["seed"] == 42 and s["robot"] == "WAM"
    assert s["voxel_resolution"] == 0.05
    assert s["volume_m3"] == s["occupied_count"] * 0.05 ** 3
    assert (cloud.points >= np.array(s["bbox_min"])).all()
    assert (cloud.points <= np.array(s["bbox_max"])).all()
    assert s["max_reach_m"] == np.linalg.norm(cloud.points, axis=1).max()
    assert 0.85 <= s["max_reach_m"] <= 1.0


def test_interior_point_is_well_sampled():
    # the straight-up pose sits inside the dense shell of the workspace,
    # so a 20k-sample grid at 5 cm reliably covers it
    wam = builtin_fixture("wam")
    cells = np.floor(generate_cloud(wam, SampleSpec(n=20000, seed=42)).points / 0.05)
    cell = np.floor(np.array([0.0, 0.0, 0.91]) / 0.05)
    assert (cells == cell).all(axis=1).any()


def test_workspace_is_rotationally_symmetric_about_base():
    # the first movable joint of the Smokie arm spins about z with full
    # range, so per-sector max reach stays within 5% of the global max
    smokie = builtin_fixture("smokie")
    cloud = generate_cloud(smokie, SampleSpec(n=200000, seed=42))
    r = np.linalg.norm(cloud.points, axis=1)
    azimuth = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    sector = np.floor((azimuth + math.pi) / (math.pi / 4)).astype(int).clip(0, 7)
    global_max = r.max()
    for s in range(8):
        assert r[sector == s].max() > 0.95 * global_max
