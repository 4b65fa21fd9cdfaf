"""Property tests of the packed voxel keys and the summary on generated
clouds, and of the CLI's block formatter on generated tables."""

from unittest import mock

import numpy as np
import pytest

from dhworkspace import PointCloud, cli, summarize, voxelize

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
    return PointCloud(points=points, robot="test", seed=0, n=points.shape[0])


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
    assert summary.max_reach == float(np.linalg.norm(points, axis=1).max())
    assert summary.bbox_min == tuple(points.min(axis=0).tolist())
    assert summary.bbox_max == tuple(points.max(axis=0).tolist())


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
