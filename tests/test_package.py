"""The package namespace and the semantics of its frozen records."""

import copy
import pickle

import numpy as np
import pytest

import dhworkspace
from dhworkspace import (
    DHRow,
    Diagnostic,
    PointCloud,
    RobotModel,
    SampleSpec,
    VoxelGrid,
    kinematics,
    rng,
    robotfile,
    workspace,
)

ROW = DHRow("revolute", 0.1, 0.2, 0.3)
PINNED = DHRow(kind="prismatic", a=0.0, alpha=0.0, d=0.1, theta_offset=0.5, limits=(0.0, 1.0), fixed=0.5)

#: one record of each value class, its fields in order, and its repr
RECORDS = [
    (ROW, ("kind", "a", "alpha", "d", "theta_offset", "limits", "fixed"),
     "DHRow(kind='revolute', a=0.1, alpha=0.2, d=0.3, theta_offset=0.0, "
     "limits=(-3.141592653589793, 3.141592653589793), fixed=None)"),
    (PINNED, ("kind", "a", "alpha", "d", "theta_offset", "limits", "fixed"),
     "DHRow(kind='prismatic', a=0.0, alpha=0.0, d=0.1, theta_offset=0.5, limits=(0.0, 1.0), fixed=0.5)"),
    (RobotModel("T", (ROW, PINNED)), ("name", "rows"),
     f"RobotModel(name='T', rows=({ROW!r}, {PINNED!r}))"),
    (Diagnostic("error", 3, 7, "min 2.0 > max 1.0", "limits-inverted"),
     ("severity", "line", "column", "message", "code"),
     "Diagnostic(severity='error', line=3, column=7, message='min 2.0 > max 1.0', code='limits-inverted')"),
    (SampleSpec(5), ("n", "seed"), "SampleSpec(n=5, seed=42)"),
    (VoxelGrid(12), ("occupied_count",), "VoxelGrid(occupied_count=12)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_repr_names_every_field(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_records_are_equal_by_class_and_fields(record, fields, text):
    twin = type(record)(*values(record, fields))
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values(record, fields))
    assert record != values(record, fields)

    class Sub(type(record)):
        pass

    # a subclass instance with the same fields is another kind of record
    other = Sub(*values(record, fields))
    assert other != record and record != other
    assert repr(other) == repr(record).replace(type(record).__name__, Sub.__qualname__, 1)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(record, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_survives_pickle_and_copy(record, fields, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record
    for again in (copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record


def test_unpickling_runs_the_checks_again():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(ROW, protocol)
        assert b"revolute" in data
        with pytest.raises(ValueError, match="unknown joint kind 'revolved'"):
            pickle.loads(data.replace(b"revolute", b"revolved"))


@pytest.mark.parametrize("make", [
    lambda: DHRow(),
    lambda: DHRow("revolute", 0.0, 0.0),
    lambda: DHRow("revolute", 0.0, 0.0, 0.0, 0.0, (-1.0, 1.0), None, "extra"),
    lambda: DHRow("revolute", 0.0, 0.0, 0.0, offset=0.0),
    lambda: RobotModel("T"),
    lambda: RobotModel("T", (ROW,), units="m"),
    lambda: Diagnostic("error", 1, 1, "message"),
    lambda: SampleSpec(),
    lambda: SampleSpec(1, 2, 3),
    lambda: SampleSpec(n=1, count=2),
    lambda: VoxelGrid(),
    lambda: PointCloud(np.zeros((1, 3)), "T"),
    lambda: PointCloud(np.zeros((1, 3)), "T", 0, "extra"),
])
def test_a_wrong_argument_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_record_checks_run_on_construction():
    with pytest.raises(ValueError, match="unknown joint kind"):
        DHRow("spherical", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="limits inverted"):
        DHRow("revolute", 0.0, 0.0, 0.0, limits=(1.0, -1.0))
    with pytest.raises(ValueError, match="at least one row"):
        RobotModel("T", ())
    with pytest.raises(ValueError, match="sample count"):
        SampleSpec(0)
    with pytest.raises(ValueError, match="points shape"):
        PointCloud(np.zeros((0, 3)), "T", 0)


def test_a_subclass_without_fields_of_its_own_constructs():
    class Row(DHRow):
        def describe(self):
            return f"{self.kind} link of {self.a} m"

    row = Row("revolute", 0.5, 0.0, 0.0)
    assert row.describe() == "revolute link of 0.5 m"
    assert (row.kind, row.a, row.limits) == ("revolute", 0.5, ROW.limits)


def test_point_cloud_is_equal_only_to_itself():
    points = np.arange(6.0).reshape(2, 3)
    cloud, twin = PointCloud(points, "T", 1), PointCloud(points, "T", 1)
    assert cloud == cloud and cloud != twin
    assert len({cloud, twin}) == 2
    assert hash(cloud) == hash(cloud)
    with pytest.raises(AttributeError):
        cloud.seed = 2
    assert repr(cloud) == f"PointCloud(points={cloud.points!r}, robot='T', seed=1)"


def test_point_cloud_survives_pickle_and_deepcopy():
    cloud = PointCloud(np.arange(6.0).reshape(2, 3), "T", 1)
    assert cloud._bounds == ((0.0, 1.0, 2.0), (3.0, 4.0, 5.0), 50.0)
    copies = [pickle.loads(pickle.dumps(cloud, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.deepcopy(cloud)]:
        assert type(again) is PointCloud and again is not cloud and again != cloud
        assert again.points.tobytes() == cloud.points.tobytes() and not again.points.flags.writeable
        assert (again.robot, again.seed) == ("T", 1)
        assert again._bounds == cloud._bounds


# --- the namespace ---------------------------------------------------------------

def test_every_public_name_resolves_to_its_module_object():
    assert len(dhworkspace.__all__) == 23
    assert len(set(dhworkspace.__all__)) == 23
    homes = (kinematics, rng, robotfile, workspace)
    for name in dhworkspace.__all__:
        value = getattr(dhworkspace, name)
        assert any(getattr(module, name, None) is value for module in homes), name
    assert set(dhworkspace.__all__) <= set(dir(dhworkspace))


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from dhworkspace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dhworkspace.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dhworkspace.no_such_name
    assert not hasattr(dhworkspace, "dataclass")
    with pytest.raises(ImportError):
        exec("from dhworkspace import no_such_name", {})
