"""Property tests of the packed voxel keys and the summary on generated
clouds, of the CLI's block formatter on generated tables, of the FK
kernel against the pure-Python reference and of its positions-only pass
against the 4x4's position column on generated chains, and of sampling
split at any row, and the cloud cut into blocks of any size, on generated
chains."""

import math
import os
from unittest import mock

import numpy as np
import numpy.testing as nt
import pytest

from dhworkspace import (
    PRISMATIC,
    REVOLUTE,
    DHRow,
    PointCloud,
    RobotModel,
    SampleSpec,
    cli,
    fk_batch,
    forward_kinematics,
    generate_cloud,
    joint_samples,
    summarize,
    voxelize,
    workspace,
)
from fk_reference import ref_fk

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

coordinates = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# voxel faces: multiples of a resolution land exactly on a floor boundary
on_faces = st.integers(min_value=-200, max_value=200).map(lambda k: k * 0.25)
clouds = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=coordinates | on_faces))
resolutions = st.sampled_from([0.25, 1.0]) | st.floats(min_value=1e-3, max_value=100.0)


def cloud_of(points):
    return PointCloud(points=points, robot="test", seed=0)


@settings(deadline=None)
@given(clouds, resolutions)
def test_packed_key_count_matches_tuple_set(points, resolution):
    grid = voxelize(cloud_of(points), resolution)
    expected = set(map(tuple, np.floor(points / resolution).astype(np.int64).tolist()))
    assert grid.occupied_count == len(expected)


@settings(deadline=None)
@given(clouds, resolutions, st.data())
def test_prefix_voxels_are_a_subset(points, resolution, data):
    # a prefix's voxels are a subset of the whole cloud's (see the tuple-set
    # property above), so it counts no more of them
    k = data.draw(st.integers(min_value=1, max_value=points.shape[0]))
    small = voxelize(cloud_of(points[:k]), resolution)
    large = voxelize(cloud_of(points), resolution)
    assert small.occupied_count <= large.occupied_count


@settings(deadline=None)
@given(clouds)
def test_summary_matches_row_reductions(points):
    summary = summarize(cloud_of(points), 1.0)
    assert summary["max_reach_m"] == float(np.linalg.norm(points, axis=1).max())
    assert summary["bbox_min"] == points.min(axis=0).tolist()
    assert summary["bbox_max"] == points.max(axis=0).tolist()


# values that stress %.9f: signed zeros, either side of the 5e-10 rounding
# step, subnormals, huge magnitudes, and exact decimal ties j/1024, which
# round half to even at nine decimals
special = st.sampled_from([0.0, -0.0, 4e-10, -4e-10, 6e-10, -6e-10, 5e-324, -5e-324,
                           1e-310, -1e-310, 1e300, -1e300])
ties = st.integers(min_value=-4096, max_value=4096).map(lambda j: j / 1024)
values = special | ties | st.floats(allow_nan=False, allow_infinity=False)
tables = st.tuples(st.integers(min_value=1, max_value=40), st.sampled_from([2, 3, 4])).flatmap(
    lambda shape: arrays(np.float64, shape, elements=values))


def reference_rows(table, sep):
    return "".join(sep.join("%.9f" % (v + 0.0) for v in row) + "\n" for row in table.tolist()).encode()


@settings(deadline=None)
@given(tables, st.integers(min_value=1, max_value=7), st.sampled_from([",", " "]))
def test_rows_text_matches_per_value_reference(table, block, sep):
    with mock.patch.object(cli, "_BLOCK", block):
        assert cli._rows_text("", table, sep) == reference_rows(table, sep)
        # the head is UTF-8, a non-ASCII robot name in a PLY comment included
        assert cli._rows_text("h\u00e9\n", table, sep) == "h\u00e9\n".encode() + reference_rows(table, sep)


# the digit path's edges: near-ties (k + 1/2)·1e-9 and their neighbours;
# magnitudes within 1e-6 of 1000 and within 10**4 ulps of it, where
# 999.9999999995 rounds up to 1000.000000000; negatives that round to zero;
# signed zeros. Values in [-2, 2] put blocks that take the digit path beside
# blocks that fall back.
near_ties = st.integers(min_value=0, max_value=10 ** 12).map(lambda k: (k + 0.5) / 1e9).flatmap(
    lambda x: st.sampled_from([x, math.nextafter(x, math.inf), math.nextafter(x, 0.0)]))
near_thousand = (st.integers(min_value=-10 ** 4, max_value=10 ** 4).map(lambda j: 1000 + j * 2.0 ** -43)
                 | st.floats(min_value=1000 - 1e-6, max_value=1000 + 1e-6) | st.just(999.9999999995))
digit_edges = ((near_ties | near_thousand).flatmap(lambda x: st.sampled_from([x, -x]))
               | st.sampled_from([0.0, -0.0, -4e-10, -5e-324]) | st.floats(min_value=-2.0, max_value=2.0))
edge_tables = st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=digit_edges))


@settings(deadline=None)
@given(edge_tables, st.integers(min_value=1, max_value=7), st.sampled_from([",", " "]))
def test_digit_path_matches_per_value_reference_at_its_edges(table, block, sep):
    with mock.patch.object(cli, "_BLOCK", block):
        assert cli._rows_text("x,y,z\n", table, sep) == b"x,y,z\n" + reference_rows(table, sep)


# --- fk_batch against the reference and forward_kinematics ----------------------------------------

lengths = st.floats(min_value=-2.0, max_value=2.0)
angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
# fk_batch skips the terms that a == 0, d == 0 or alpha == 0 make exactly zero
zeros = st.sampled_from([0.0, -0.0])


@st.composite
def dh_rows(draw):
    kind = draw(st.sampled_from([REVOLUTE, PRISMATIC]))
    span = angles if kind == REVOLUTE else lengths
    # -0.0 sorts first, or st.floats(min_value=0.0, max_value=-0.0) refuses the pair
    lo, hi = sorted((draw(span), draw(span)), key=lambda v: (v, math.copysign(1.0, v)))
    return DHRow(kind=kind, a=draw(zeros | lengths), alpha=draw(zeros | angles),
                 d=draw(zeros | lengths), theta_offset=draw(angles), limits=(lo, hi),
                 fixed=draw(st.none() | st.floats(min_value=lo, max_value=hi)))


chains = st.lists(dh_rows(), min_size=1, max_size=8).map(
    lambda rows: RobotModel(name="generated", rows=tuple(rows)))


@settings(deadline=None)
@given(chains, st.data())
def test_fk_batch_matches_forward_kinematics(model, data):
    within_limits = st.tuples(*[st.floats(min_value=lo, max_value=hi)
                                for lo, hi in (row.limits for row in model.movable_rows)])
    configs = data.draw(st.lists(within_limits, min_size=1, max_size=4))
    Q = np.array(configs, dtype=np.float64).reshape(len(configs), model.movable_count)
    for T, q in zip(fk_batch(model, Q), Q):
        nt.assert_allclose(T, ref_fk(model, q), rtol=0, atol=1e-12)
        # the one-pose entry runs the same kernel: the same bits
        assert np.array_equal(forward_kinematics(model, q), T)


def with_configs(model):
    """The model and 1-4 finite configurations, drawn regardless of its limits."""
    shape = st.tuples(st.integers(min_value=1, max_value=4), st.just(model.movable_count))
    return st.tuples(st.just(model), arrays(np.float64, shape, elements=zeros | angles))


def chain(*rows):
    return RobotModel(name="example", rows=tuple(DHRow(kind, a, alpha, d) for kind, a, alpha, d in rows))


@settings(deadline=None)
@given(chains.flatmap(with_configs))
# the last row's a == 0, so that row takes no cos or sin: smokie's shape
@example((chain((REVOLUTE, 0.0, math.pi / 2, 0.0), (REVOLUTE, 0.43, 0.0, 0.0),
                (REVOLUTE, 0.0, -math.pi / 2, 0.145), (REVOLUTE, 0.0, 0.0, 0.115)),
          np.array([[0.3, -1.2, 0.0, 2.0], [0.0, -0.0, math.pi / 2, -math.pi]])))
# a prismatic last row: its d is an array, never skipped
@example((chain((REVOLUTE, 0.2, 0.0, 0.0), (REVOLUTE, 0.0, math.pi / 2, 0.0), (PRISMATIC, 0.0, 0.0, 0.0)),
          np.array([[0.7, 0.0, 0.25], [-2.0, 1.0, -0.0]])))
def test_positions_only_pass_gives_the_pose_position_bytes(case):
    model, Q = case
    positions = fk_batch(model, Q, pose=False)
    assert positions.shape == (len(Q), 3)
    assert positions.tobytes() == fk_batch(model, Q)[:, :3, 3].tobytes()


# --- sampling at a split point ----------------------------------------------------------------

@settings(deadline=None)
@given(chains.filter(lambda model: model.movable_count > 0), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2 ** 64 - 1), st.data())
def test_any_split_point_gives_the_single_pass_samples(model, n, seed, data):
    spec = SampleSpec(n=n, seed=seed)
    split = data.draw(st.integers(min_value=0, max_value=n))
    halves = np.concatenate([joint_samples(model, spec, 0, split), joint_samples(model, spec, split)])
    assert halves.tobytes() == joint_samples(model, spec).tobytes()


@settings(deadline=None)
@given(chains.filter(lambda model: model.movable_count > 0), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 64 - 1), st.data())
def test_any_block_size_gives_the_single_pass_cloud(model, block, workers, seed, data):
    spec = SampleSpec(n=data.draw(st.integers(min_value=1, max_value=5 * block)), seed=seed)
    single_pass = fk_batch(model, joint_samples(model, spec))[:, :3, 3]
    with mock.patch.object(workspace, "_BLOCK", block), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(range(workers)), create=True):
        cloud = generate_cloud(model, spec)
        # the bounds and voxelize's keys are computed in blocks of the same
        # size, on as many workers
        summary = summarize(cloud, 0.25)
    assert cloud.points.tobytes() == single_pass.tobytes()
    # the bounds and reach merged from those blocks are those of a copy of
    # the points summarized outside the patch, in one block, and the keys
    # give the single-pass count
    assert repr(summary) == repr(summarize(PointCloud(np.array(cloud.points), cloud.robot, cloud.seed), 0.25))
    assert summary["occupied_count"] == len(set(map(tuple, np.floor(single_pass / 0.25).tolist())))
