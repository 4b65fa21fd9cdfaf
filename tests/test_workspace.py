"""Sampling, clouds, voxel grids, projections, summaries."""

import dataclasses
import math

import numpy as np
import numpy.testing as nt
import pytest

from dhworkspace import (
    REVOLUTE,
    DHRow,
    PointCloud,
    RobotModel,
    SampleSpec,
    builtin_fixture,
    generate_cloud,
    joint_samples,
    project,
    reach_bound,
    sample_config,
    summarize,
    voxelize,
)
from dhworkspace.rng import GOLDEN, MASK64, SplitMix64
from fk_reference import ref_ee


def limits_matrix(model):
    return np.array([row.limits for row in model.movable_rows])


def collapse_limits(model, value=0.0):
    """Model with every joint pinned to a single value via min == max."""
    rows = tuple(
        dataclasses.replace(r, limits=(value, value),
                            fixed=value if r.fixed is not None else None)
        for r in model.rows)
    return dataclasses.replace(model, rows=rows)


def cloud_of(points):
    pts = np.asarray(points, dtype=np.float64)
    return PointCloud(points=pts, robot="test", seed=0, n=pts.shape[0])


# --- SampleSpec / sample_config ---------------------------------------------

def test_spec_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        SampleSpec(n=0)


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
    rows = tuple(dataclasses.replace(r, fixed=0.0) for r in wam.rows)
    frozen = dataclasses.replace(wam, rows=rows)
    with pytest.raises(ValueError):
        joint_samples(frozen, SampleSpec(n=1))


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
    assert cloud.n == 300


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


def test_single_sample_of_degenerate_robot_is_origin():
    model = RobotModel(name="dot", rows=(
        DHRow(index=1, kind=REVOLUTE, a=0.0, alpha=0.0, d=0.0,
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


def test_point_cloud_shape_is_checked():
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros((3, 3)), robot="x", seed=0, n=4)


# --- voxelize ------------------------------------------------------------------

def test_voxel_floor_rule():
    grid = voxelize(cloud_of([[0.005, 0.005, 0.005]]), 0.01)
    assert grid.occupied == {(0, 0, 0)}


def test_voxel_negative_coordinates_floor_down():
    grid = voxelize(cloud_of([[-0.001, 0.0, 0.019]]), 0.01)
    assert grid.occupied == {(-1, 0, 1)}


def test_voxel_set_semantics():
    grid = voxelize(cloud_of([[0.001, 0.001, 0.001], [0.009, 0.002, 0.0]]), 0.01)
    assert grid.occupied_count == 1


def test_voxel_empty_cloud():
    grid = voxelize(cloud_of(np.empty((0, 3))), 0.01)
    assert grid.occupied_count == 0


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
    with pytest.raises(ValueError, match="overflows"):
        voxelize(unit, 1e300)
    with pytest.raises(ValueError, match="index"):
        voxelize(unit, 1e-20)
    # every index is small, but the box holds (2e6 + 1)**3 > 2**62 voxels
    with pytest.raises(ValueError, match="box"):
        voxelize(unit, 5e-7)
    assert voxelize(unit, 1e-6).occupied_count == 2


def test_voxel_count_matches_tuple_set_with_negative_coordinates():
    rng = np.random.default_rng(12)
    points = rng.uniform(-1.3, 0.4, size=(3000, 3))
    points[::7] = np.round(points[::7], 2)  # some points on voxel faces
    for resolution in (0.01, 0.05, 0.3, 2.0):
        grid = voxelize(cloud_of(points), resolution)
        expected = set(map(tuple, np.floor(points / resolution).astype(np.int64).tolist()))
        assert grid.occupied_count == len(expected)
        assert grid.occupied == expected


def test_reachable_is_false_outside_the_grid_box():
    # no voxel outside the cloud's bounding box is occupied
    points = np.random.default_rng(8).uniform(-0.5, 0.5, size=(400, 3))
    grid = voxelize(cloud_of(points), 0.1)
    lo = np.floor(points.min(axis=0) / 0.1).astype(int)
    hi = np.floor(points.max(axis=0) / 0.1).astype(int)
    cells = np.array(sorted(grid.occupied))
    assert (cells >= lo).all() and (cells <= hi).all()
    for axis in range(3):
        for outside in (lo[axis] - 1, hi[axis] + 1):
            cell = np.floor(points[0] / 0.1).astype(int)
            cell[axis] = outside
            assert tuple(cell.tolist()) not in grid.occupied


def test_voxel_order_independence():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(500, 3))
    shuffled = pts[rng.permutation(500)]
    assert voxelize(cloud_of(pts), 0.05).occupied == voxelize(cloud_of(shuffled), 0.05).occupied


def test_volume_estimate_identity():
    grid = voxelize(cloud_of(np.random.default_rng(1).uniform(-1, 1, (200, 3))), 0.07)
    assert grid.volume_estimate == grid.occupied_count * 0.07 ** 3


def test_every_cloud_point_is_reachable_in_its_grid():
    cloud = generate_cloud(builtin_fixture("smokie"), SampleSpec(n=500, seed=6))
    grid = voxelize(cloud, 0.02)
    assert set(map(tuple, np.floor(cloud.points / 0.02).astype(int).tolist())) <= grid.occupied


def test_point_beyond_reach_bound_is_unreachable():
    # every occupied voxel has a point within the reach bound, so a voxel
    # beyond it is never occupied
    model = builtin_fixture("wam")
    bound = reach_bound(model)
    grid = voxelize(generate_cloud(model, SampleSpec(n=2000, seed=42)), 0.05)
    cells = np.array(sorted(grid.occupied))
    nearest = np.clip(0.0, cells * 0.05, (cells + 1) * 0.05)
    assert (np.linalg.norm(nearest, axis=1) <= bound).all()
    far = np.floor(np.array([bound + 0.5, 0.0, 0.0]) / 0.05).astype(int)
    assert tuple(far.tolist()) not in grid.occupied


def test_voxel_prefix_subset():
    wam = builtin_fixture("wam")
    small = voxelize(generate_cloud(wam, SampleSpec(n=5000, seed=42)), 0.02)
    large = voxelize(generate_cloud(wam, SampleSpec(n=20000, seed=42)), 0.02)
    assert small.occupied <= large.occupied


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


def test_projection_rejects_unknown_plane():
    with pytest.raises(ValueError):
        project(cloud_of([[0, 0, 0]]), "zz")


# --- summarize -------------------------------------------------------------------

def test_summary_single_point():
    s = summarize(cloud_of([[0.0, 0.0, 0.0]]), 0.01)
    assert s.occupied_count == 1
    assert s.volume_estimate == pytest.approx(1e-6, rel=1e-12)
    assert s.max_reach == 0.0
    assert s.bbox_min == (0.0, 0.0, 0.0)
    assert s.bbox_max == (0.0, 0.0, 0.0)


def test_summary_ignores_duplicates():
    one = summarize(cloud_of([[0.3, -0.2, 0.1]]), 0.05)
    many = summarize(cloud_of([[0.3, -0.2, 0.1]] * 40), 0.05)
    assert many.occupied_count == one.occupied_count
    assert many.volume_estimate == one.volume_estimate
    assert many.max_reach == one.max_reach
    assert many.bbox_min == one.bbox_min


def test_summary_rejects_empty_cloud():
    with pytest.raises(ValueError):
        summarize(cloud_of(np.empty((0, 3))), 0.01)


def test_summary_fields_are_consistent():
    wam = builtin_fixture("wam")
    cloud = generate_cloud(wam, SampleSpec(n=20000, seed=42))
    s = summarize(cloud, 0.05)
    assert s.n == 20000 and s.seed == 42 and s.robot == "WAM"
    assert s.volume_estimate == s.occupied_count * 0.05 ** 3
    assert (cloud.points >= np.array(s.bbox_min)).all()
    assert (cloud.points <= np.array(s.bbox_max)).all()
    assert s.max_reach == np.linalg.norm(cloud.points, axis=1).max()
    assert 0.85 <= s.max_reach <= 1.0


def test_interior_point_is_well_sampled():
    # the straight-up pose sits inside the dense shell of the workspace,
    # so a 20k-sample grid at 5 cm reliably covers it
    wam = builtin_fixture("wam")
    grid = voxelize(generate_cloud(wam, SampleSpec(n=20000, seed=42)), 0.05)
    cell = np.floor(np.array([0.0, 0.0, 0.91]) / 0.05).astype(int)
    assert tuple(cell.tolist()) in grid.occupied


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
