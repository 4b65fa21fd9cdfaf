"""Property tests of the packed voxel keys on generated clouds."""

import numpy as np
import pytest

from dhworkspace import PointCloud, voxelize

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
