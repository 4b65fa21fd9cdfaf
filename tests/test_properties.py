"""Property tests of the packed voxel keys and the summary on generated
clouds, of the CLI's block formatter on generated tables, and of the FK
kernel against the pure-Python reference on generated chains."""

import math
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
    cli,
    fk_batch,
    forward_kinematics,
    summarize,
    voxelize,
)
from fk_reference import ref_fk

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
    assert grid.occupied == expected


@settings(deadline=None)
@given(clouds, resolutions, st.data())
def test_prefix_voxels_are_a_subset(points, resolution, data):
    k = data.draw(st.integers(min_value=1, max_value=points.shape[0]))
    small = voxelize(cloud_of(points[:k]), resolution)
    large = voxelize(cloud_of(points), resolution)
    assert small.occupied <= large.occupied
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
    return "".join(sep.join("%.9f" % (v + 0.0) for v in row) + "\n" for row in table.tolist())


@settings(deadline=None)
@given(tables, st.integers(min_value=1, max_value=7), st.sampled_from([",", " "]))
def test_rows_text_matches_per_value_reference(table, block, sep):
    with mock.patch.object(cli, "_FORMAT_BLOCK", block):
        assert cli._rows_text(table, sep) == reference_rows(table, sep)
        assert cli._csv_lines("h", table) == "h\n" + reference_rows(table, ",")


# --- fk_batch against the reference and forward_kinematics ----------------------------------------

lengths = st.floats(min_value=-2.0, max_value=2.0)
angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


@st.composite
def dh_rows(draw):
    kind = draw(st.sampled_from([REVOLUTE, PRISMATIC]))
    span = angles if kind == REVOLUTE else lengths
    lo, hi = sorted((draw(span), draw(span)))
    return DHRow(kind=kind, a=draw(lengths), alpha=draw(angles),
                 d=draw(lengths), theta_offset=draw(angles), limits=(lo, hi),
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
